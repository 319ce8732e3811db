//! Items go out from a shared cursor, not in fixed per-thread chunks. Kept
//! in its own binary: it sets the global thread count, which the unit
//! tests also set while running concurrently.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use rayon::prelude::*;

#[test]
fn an_idle_thread_takes_the_items_a_busy_one_has_not_started() {
    rayon::ThreadPoolBuilder::new().num_threads(2).build_global().expect("configure threads");
    let (tx, rx) = mpsc::channel();
    let rx = Mutex::new(rx);
    // Item 0 waits until items 1, 2 and 3 have run. With one contiguous
    // chunk per thread, item 1 would sit behind item 0 on the same thread.
    let done: Vec<bool> = (0..4usize)
        .into_par_iter()
        .map(|i| {
            if i > 0 {
                tx.send(i).expect("receiver outlives the map");
                return true;
            }
            let rx = rx.lock().expect("one waiter");
            (1..4).all(|_| rx.recv_timeout(Duration::from_secs(30)).is_ok())
        })
        .collect();
    assert_eq!(done, [true; 4]);
}
