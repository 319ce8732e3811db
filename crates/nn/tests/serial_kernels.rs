//! Kernels run on the thread that calls them, whatever the pool size:
//! parallelism belongs to the callers whose items are independent designs
//! or requests. Kept in its own binary, since it sets the global thread
//! count.

use std::sync::Mutex;
use std::thread::ThreadId;

use rtt_nn::{ops, parallel, Tensor};

#[test]
fn masked_readout_runs_on_the_calling_thread() {
    parallel::set_num_threads(4);
    // 1,024 rows of one 64-bin run at width 32: 2^21 products, a size a
    // threaded kernel would split.
    let (rows, bins, d) = (1024usize, 64usize, 32usize);
    let w = Tensor::from_vec(&[bins, d], (0..bins * d).map(|i| (i % 7) as f32 * 0.25).collect());
    let gmap: Vec<f32> = (0..bins).map(|b| (b % 5) as f32 - 1.5).collect();
    let bias: Vec<f32> = (0..d).map(|j| j as f32 * 0.125).collect();
    let run = [[0u32, bins as u32]];
    let callers: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let mut out = Tensor::default();
    ops::masked_readout(
        &w,
        &gmap,
        &bias,
        rows,
        |_| {
            callers.lock().expect("no recorder panics").push(std::thread::current().id());
            &run[..]
        },
        &mut out,
    );
    let callers = callers.into_inner().expect("no recorder panics");
    assert!(callers.len() >= rows, "every row reads its runs");
    let me = std::thread::current().id();
    assert!(callers.iter().all(|&id| id == me), "a kernel call left the calling thread");

    let want: Vec<u32> = (0..d)
        .map(|j| {
            let mut acc = 0.0f32;
            for (b, &m) in gmap.iter().enumerate() {
                acc += m * w.at(b, j);
            }
            (acc + bias[j]).to_bits()
        })
        .collect();
    for row in out.data().chunks_exact(d) {
        assert_eq!(row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    }
}
