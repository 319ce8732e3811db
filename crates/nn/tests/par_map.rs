//! `parallel::par_map`: input order, the shared-cursor handout, the serial
//! fallback and panic propagation. One test function: the thread count is
//! global, so two functions in one binary would race on it.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::Duration;

use rtt_nn::parallel::{par_map, set_num_threads};

#[test]
fn par_map_keeps_order_shares_items_and_reraises_panics() {
    // Results come back in input order.
    set_num_threads(4);
    let doubled = par_map((0..1000usize).collect(), |x| x * 2);
    assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());

    // Items go out one at a time from a shared cursor, not in fixed
    // per-thread chunks: item 0 waits until items 1, 2 and 3 have run, so
    // with one contiguous chunk per thread item 1 would sit behind item 0.
    set_num_threads(2);
    let (tx, rx) = mpsc::channel();
    let rx = Mutex::new(rx);
    let done = par_map((0..4usize).collect(), |i| {
        if i > 0 {
            tx.send(i).expect("receiver outlives the map");
            return true;
        }
        let rx = rx.lock().expect("one waiter");
        (1..4).all(|_| rx.recv_timeout(Duration::from_secs(30)).is_ok())
    });
    assert_eq!(done, [true; 4]);

    // At one thread every item runs on the caller.
    set_num_threads(1);
    let caller = thread::current().id();
    let on_caller = par_map((0..10usize).collect(), |i| (i, thread::current().id() == caller));
    assert_eq!(on_caller, (0..10).map(|i| (i, true)).collect::<Vec<_>>());

    // A panic on a worker reaches the caller with its message. The barrier
    // makes each of the two threads hold one item; only the non-caller
    // panics.
    set_num_threads(2);
    let barrier = Barrier::new(2);
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        par_map(vec![0usize, 1], |i| {
            barrier.wait();
            if thread::current().id() != caller {
                panic!("item {i} failed on a worker");
            }
            i
        })
    }));
    let payload = caught.expect_err("a worker's panic reaches the caller");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(message.contains("failed on a worker"), "payload: {message:?}");
    set_num_threads(1);
}
