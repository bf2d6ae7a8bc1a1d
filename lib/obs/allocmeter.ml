(* GC-quiet host-heap allocation measurement.

   What the figures are. [measure] reports the [Gc.allocated_bytes]
   delta, but on OCaml 5.1.1 that counter holds the part of the minor
   heap not yet collected in words, not bytes: its minor term is 1/8 of
   the [Gc.minor_words] delta until a minor collection converts the
   collected words to bytes. So over a window with no minor collection
   the figure is exactly the minor-heap words allocated (the
   [Gc.minor_words] delta): 1 000 conses, 3 000 words, read 3 012, not
   24 000. Over a window that a collection lands in, the figure jumps by
   up to 7/8 of the minor heap's fill, which is why short windows look
   noisy. The engine suspends and resumes thousands of fibers per
   simulated millisecond, so such windows are the common case here.

   Every figure this module produces is therefore taken over a window
   verified to contain no minor collection: the minor heap is temporarily
   enlarged, the minor generation is emptied right before the window, and
   the measurement retries if a collection still slipped in. Within such
   a window the figure is exact and reproducible, in words. Callers name
   it bytes ([bytes_per_tx], [commit.rw_txn_bytes]); no figure, budget or
   baseline built on it has been rescaled. *)

let quiet_minor_heap_words = 32 * 1024 * 1024 (* 256 MB *)

(* Run [fn] with the enlarged minor heap, restoring the previous GC
   parameters afterwards.  Nesting is harmless. *)
let with_quiet_heap fn =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = quiet_minor_heap_words };
  Fun.protect ~finally:(fun () -> Gc.set saved) fn

(* The [Gc.allocated_bytes] delta of one run of [fn] (minor-heap words
   over a quiet window, see above), and whether the window stayed free of
   minor collections (when [false], the figure includes the jump and
   should be retried over a smaller window). *)
let measure fn =
  Gc.minor ();
  let m0 = (Gc.quick_stat ()).Gc.minor_collections in
  let a0 = Gc.allocated_bytes () in
  let result = fn () in
  let a1 = Gc.allocated_bytes () in
  let m1 = (Gc.quick_stat ()).Gc.minor_collections in
  (result, a1 -. a0, m1 = m0)
