(* GC-quiet host-heap allocation measurement.

   [Gc.allocated_bytes] is exact over long windows but mis-places
   allocation across short ones: when a minor collection lands inside a
   measured window on OCaml 5.1's effects runtime, the window absorbs a
   spurious ~minor-heap-sized jump that neighbouring windows pay back.
   (The engine suspends and resumes thousands of fibers per simulated
   millisecond, so short windows are the common case here.)

   Every figure this module produces is therefore taken over a window
   verified to contain no minor collection: the minor heap is temporarily
   enlarged, the minor generation is emptied right before the window, and
   the measurement retries if a collection still slipped in.  Within such
   a window the delta is byte-exact. *)

let quiet_minor_heap_words = 32 * 1024 * 1024 (* 256 MB *)

(* Run [fn] with the enlarged minor heap, restoring the previous GC
   parameters afterwards.  Nesting is harmless. *)
let with_quiet_heap fn =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = quiet_minor_heap_words };
  Fun.protect ~finally:(fun () -> Gc.set saved) fn

(* Bytes allocated by one run of [fn], and whether the window stayed free
   of minor collections (when [false], the figure includes the artifact
   and should be retried over a smaller window). *)
let measure fn =
  Gc.minor ();
  let m0 = (Gc.quick_stat ()).Gc.minor_collections in
  let a0 = Gc.allocated_bytes () in
  let result = fn () in
  let a1 = Gc.allocated_bytes () in
  let m1 = (Gc.quick_stat ()).Gc.minor_collections in
  (result, a1 -. a0, m1 = m0)
