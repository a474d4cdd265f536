//! Allocation budget of offline training, by exact count.
//!
//! The training gain of the E-step lattice rests on a property a timing
//! can only suggest: the `T x N` buffers are built once per
//! `train_seeded` call, sized by the longest sequence, and nothing in the
//! per-sequence, per-step work allocates. So one call allocates
//! `a + b * iterations` times, with `a` and `b` depending on the state
//! count alone — not on how many sequences there are or how long they
//! are. A counting global allocator states that as numbers. Counts are
//! per thread (the test harness runs each test on its own, and training
//! runs on the calling thread), so the tests cannot disturb one another.

use cs2p_ml::gaussian::Gaussian;
use cs2p_ml::hmm::{train_seeded, Emission, Hmm, TrainConfig};
use cs2p_ml::matrix::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a bump of a const-initialised, destructor-free thread-local
// `Cell`, which neither allocates nor re-enters the allocator.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

fn model() -> Hmm {
    Hmm::new(
        vec![0.5, 0.3, 0.2],
        Matrix::from_rows(&[
            vec![0.90, 0.06, 0.04],
            vec![0.05, 0.90, 0.05],
            vec![0.02, 0.08, 0.90],
        ]),
        vec![
            Emission::Gaussian(Gaussian::new(1.4, 0.2)),
            Emission::Gaussian(Gaussian::new(2.4, 0.5)),
            Emission::Gaussian(Gaussian::new(0.3, 0.1)),
        ],
    )
}

fn sequences(count: usize, epochs: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // The longest sequence first, shorter ones after it.
    (0..count)
        .map(|k| {
            model()
                .sample_sequence(epochs - k % epochs.min(7), &mut rng)
                .1
        })
        .collect()
}

/// Allocations of one warm-started run of exactly `iterations` EM
/// iterations (`tol = 0` never stops early). Warm, so that the model EM
/// starts from is the same whatever the data: k-means pools and sorts
/// every observation, which is data-sized work by design.
fn training_allocations(data: &[Vec<f64>], iterations: usize) -> u64 {
    let config = TrainConfig {
        n_states: 3,
        max_iters: iterations,
        tol: 0.0,
        ..TrainConfig::default()
    };
    let prior = model();
    allocations_in(|| {
        let (_, report) = train_seeded(data, &config, Some(&prior)).expect("trains");
        assert_eq!(report.iterations, iterations);
        assert!(report.start.is_warm());
    })
}

#[test]
fn training_allocations_do_not_depend_on_the_data() {
    assert!(!cs2p_obs::enabled(), "the registry is off by default");
    let small = sequences(10, 20, 1);
    let large = sequences(200, 400, 2);

    let counts = |data: &[Vec<f64>]| [3, 5, 9].map(|iters| training_allocations(data, iters));
    let [s3, s5, s9] = counts(&small);
    let [l3, l5, l9] = counts(&large);
    assert_eq!([s3, s5, s9], [l3, l5, l9], "10 x 20 epochs vs 200 x 400");

    // a + b * iterations, exactly. Today a = 15 (the lattice's seven
    // buffers, the prior's validation and clone, two bookkeeping vectors)
    // and b = 11 (six accumulators, the M-step's new parameters and their
    // validation); the bounds leave room for either to change shape, not
    // to grow with the data.
    let per_iteration = (s5 - s3) / 2;
    assert_eq!(s5 - s3, 2 * per_iteration);
    assert_eq!(s9 - s5, 4 * per_iteration);
    let fixed = s3 - 3 * per_iteration;
    assert!(fixed <= 16, "fixed allocations per run: {fixed}");
    assert!(
        per_iteration <= 16,
        "allocations per EM iteration: {per_iteration}"
    );
}

#[test]
fn log_likelihood_allocations_do_not_depend_on_the_length() {
    let hmm = model();
    let long = sequences(1, 10_000, 3).remove(0);
    let short = &long[..10];
    assert!(hmm.log_likelihood(short).is_finite());
    // The hoisted `ln sigma` terms, and one block for the emission row
    // and the two rolling rows — whether the sequence has 10 epochs or
    // 10 000.
    assert_eq!(allocations_in(|| hmm.log_likelihood(short)), 2);
    assert_eq!(allocations_in(|| hmm.log_likelihood(&long)), 2);
}
